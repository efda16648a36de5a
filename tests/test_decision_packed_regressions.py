"""Regression tests riding with the packed fast-path and blocked-Taylor PRs.

Covers the history-record NaN bug, caller-option mutation, the
top-eigenvalue certificate routine, and the fixed-seed guarantees that the
decision solver certifies the same outcome on the packed/seed oracle paths,
the blocked/per-term Taylor paths, and the batched/loop exact-oracle paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg.norms import top_eigenvalue
from repro.linalg.psd import random_psd
from repro.operators import ConstraintCollection, DensePSDOperator, FactorizedPSDOperator
from repro.core.decision import DecisionOptions, decision_psdp
from repro.core.decision_phased import decision_psdp_phased
from repro.core.dotexp import ExactDotExpOracle, FastDotExpOracle
from repro.core.solver import SolverOptions, approx_psdp
from repro.problems.random_instances import random_packing_sdp

from helpers import factorized_family


def _factorized_collection(seed, m=12, n=8, scale=0.35):
    return factorized_family(seed, n=n, m=m, rank=2, scale=scale)


class TestHistoryNaNRegression:
    def test_min_max_values_are_finite(self, small_collection):
        result = decision_psdp(
            small_collection, epsilon=0.3, collect_history=True, max_iterations=5
        )
        assert result.history is not None
        assert len(result.history) > 0
        for record in result.history:
            assert np.isfinite(record.min_value)
            assert np.isfinite(record.max_value)
            assert record.min_value <= record.max_value


class TestOptionsNotMutated:
    def test_decision_options_epsilon_preserved(self, small_collection):
        opts = DecisionOptions(epsilon=0.25, max_iterations=4)
        decision_psdp(small_collection, epsilon=0.4, options=opts)
        assert opts.epsilon == 0.25

    def test_solver_options_epsilon_preserved(self, rng):
        problem = random_packing_sdp(3, 4, rng=rng)
        opts = SolverOptions(epsilon=0.5)
        approx_psdp(problem, epsilon=0.3, options=opts)
        assert opts.epsilon == 0.5


class TestTopEigenvalue:
    def test_matches_eigvalsh_small(self, rng):
        mat = random_psd(10, rng=rng, scale=3.0)
        assert top_eigenvalue(mat) == pytest.approx(float(np.linalg.eigvalsh(mat)[-1]))

    def test_matches_eigvalsh_above_cutoff(self, rng):
        mat = random_psd(90, rng=rng, scale=2.0)
        exact = float(np.linalg.eigvalsh(mat)[-1])
        assert top_eigenvalue(mat, rng=rng) == pytest.approx(exact, rel=1e-6)

    def test_matvec_callable(self, rng):
        mat = random_psd(80, rng=rng, scale=1.5)
        exact = float(np.linalg.eigvalsh(mat)[-1])
        est = top_eigenvalue(lambda v: mat @ v, dim=80, rng=rng)
        assert est == pytest.approx(exact, rel=1e-6)

    def test_requires_dim_for_callable(self):
        with pytest.raises(ValueError):
            top_eigenvalue(lambda v: v)

    def test_zero_dimension(self):
        assert top_eigenvalue(np.zeros((0, 0))) == 0.0


class TestPackedDecisionEquivalence:
    def test_same_certified_outcome_fixed_seed(self):
        results = {}
        for packed in (True, False):
            coll = _factorized_collection(20120522)
            oracle = FastDotExpOracle(coll, eps=0.05, rng=99, packed=packed)
            results[packed] = decision_psdp(coll, epsilon=0.2, oracle=oracle, rng=99)
        assert results[True].outcome == results[False].outcome
        assert results[True].iterations == results[False].iterations
        np.testing.assert_allclose(
            results[True].dual_x, results[False].dual_x, rtol=1e-6, atol=1e-12
        )

    def test_fast_oracle_string_uses_packed_view(self):
        coll = _factorized_collection(7)
        assert coll.packed_view is None
        result = decision_psdp(coll, epsilon=0.25, oracle="fast", rng=3, max_iterations=8)
        assert coll.packed_view is not None
        assert result.outcome is not None

    def test_exact_oracle_leaves_dense_collection_unpacked(self, small_collection):
        # Dense collections have eigh-derived (inexact) factors, so the
        # exact oracle's batched pass must not pack them.
        decision_psdp(small_collection, epsilon=0.3, max_iterations=4)
        assert small_collection.packed_view is None

    def test_exact_oracle_packs_exact_factor_collection(self):
        coll = _factorized_collection(41)
        assert coll.packed_view is None
        decision_psdp(coll, epsilon=0.3, max_iterations=4)
        assert coll.packed_view is not None

    def test_blocked_taylor_same_certified_outcome_fixed_seed(self):
        """Blocked kernel vs per-term recurrence: same polynomial, same
        sketch draws, so the certified decision must be identical."""
        results = {}
        for blocked in (True, False):
            coll = _factorized_collection(20120522)
            oracle = FastDotExpOracle(coll, eps=0.05, rng=99, blocked=blocked)
            results[blocked] = decision_psdp(coll, epsilon=0.2, oracle=oracle, rng=99)
        assert results[True].outcome == results[False].outcome
        assert results[True].iterations == results[False].iterations
        np.testing.assert_allclose(
            results[True].dual_x, results[False].dual_x, rtol=1e-6, atol=1e-12
        )

    def test_history_collection_does_not_perturb_oracle_stream(self):
        """The eigenvalue estimator spawns its own generator, so turning
        history on (which estimates lambda_max every iteration) must not
        change the oracle's sketch draws or the certified outcome."""
        results = {}
        for collect in (True, False):
            coll = _factorized_collection(31)
            oracle = FastDotExpOracle(coll, eps=0.05, rng=np.random.default_rng(5))
            results[collect] = decision_psdp(
                coll, epsilon=0.2, oracle=oracle, rng=np.random.default_rng(5),
                collect_history=collect,
            )
        assert results[True].outcome == results[False].outcome
        assert results[True].iterations == results[False].iterations
        np.testing.assert_array_equal(results[True].dual_x, results[False].dual_x)


class TestExactOracleBatchedEquivalence:
    """The packed batched trace-product pass vs the seed per-constraint loop."""

    @pytest.mark.parametrize("seed", [20120522, 7, 1201])
    def test_same_certified_outcome_fixed_seed(self, seed):
        results = {}
        for batched in (True, False):
            coll = _factorized_collection(seed)
            oracle = ExactDotExpOracle(coll, batched=batched)
            results[batched] = decision_psdp(coll, epsilon=0.2, oracle=oracle)
        assert results[True].outcome == results[False].outcome
        assert results[True].iterations == results[False].iterations
        np.testing.assert_allclose(
            results[True].dual_x, results[False].dual_x, rtol=1e-9, atol=1e-13
        )

    def test_work_depth_accounting_preserved(self):
        """One batched GEMM must charge the tracker exactly what the mapped
        per-constraint loop charged: same work, same depth."""
        reports = {}
        for batched in (True, False):
            coll = _factorized_collection(12)
            oracle = ExactDotExpOracle(coll, batched=batched)
            reports[batched] = decision_psdp(
                coll, epsilon=0.25, oracle=oracle, max_iterations=6
            ).work_depth
        assert reports[True].by_label.get("constraint-dots") == pytest.approx(
            reports[False].by_label.get("constraint-dots")
        )

    def test_batched_false_bypasses_existing_packed_view(self, monkeypatch):
        """batched=False must run the per-constraint loop even when another
        consumer already built the collection's packed view."""
        coll = _factorized_collection(6)
        coll.packed()  # e.g. a fast oracle packed it earlier

        def _fail(self, weight_matrix):  # pragma: no cover - must not run
            raise AssertionError("packed dots used despite batched=False")

        from repro.operators.packed import PackedGramFactors

        monkeypatch.setattr(PackedGramFactors, "dots", _fail)
        oracle = ExactDotExpOracle(coll, batched=False)
        x = np.ones(8) / 8
        psi = sum(w * op.to_dense() for w, op in zip(x, coll.operators))
        output = oracle(psi, x)
        assert np.all(np.isfinite(output.values))

    def test_batched_dots_match_loop(self):
        coll_a = _factorized_collection(5)
        coll_b = _factorized_collection(5)
        x = np.ones(8) / 8
        out_loop = ExactDotExpOracle(coll_a, batched=False)(coll_a.weighted_sum(x), x)
        out_fast = ExactDotExpOracle(coll_b, batched=True)(coll_b.weighted_sum(x), x)
        np.testing.assert_allclose(out_fast.values, out_loop.values, rtol=1e-10, atol=1e-14)


class TestPhasedSolverThreading:
    def test_phased_fast_oracle_runs_blocked_path(self):
        coll = _factorized_collection(9)
        result = decision_psdp_phased(
            coll, epsilon=0.25, oracle="fast", rng=4, max_iterations=10
        )
        assert coll.packed_view is not None
        assert result.outcome is not None

    def test_phased_history_does_not_perturb_outcome(self):
        results = {}
        for collect in (True, False):
            coll = _factorized_collection(13)
            results[collect] = decision_psdp_phased(
                coll, epsilon=0.25, rng=8, collect_history=collect, max_iterations=12
            )
        assert results[True].outcome == results[False].outcome
        assert results[True].iterations == results[False].iterations


class TestDenseStackWeightedSum:
    def _dense_collection(self, seed, n=7, m=10):
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(n):
            q = rng.standard_normal((m, 3))
            mats.append(DensePSDOperator(q @ q.T))
        return ConstraintCollection(mats, validate=False)

    def test_matches_loop_full_support(self):
        coll = self._dense_collection(1)
        weights = np.random.default_rng(2).random(len(coll))
        expected = np.zeros((coll.dim, coll.dim))
        for w, op in zip(weights, coll.operators):
            expected += w * op.to_dense()
        np.testing.assert_allclose(coll.weighted_sum(weights), expected, atol=1e-12)

    def test_matches_loop_sparse_support(self):
        coll = self._dense_collection(3)
        weights = np.zeros(len(coll))
        weights[2] = 0.7
        expected = 0.7 * coll.operators[2].to_dense()
        np.testing.assert_allclose(coll.weighted_sum(weights), expected, atol=1e-13)

    def test_zero_weights(self):
        coll = self._dense_collection(4)
        np.testing.assert_array_equal(
            coll.weighted_sum(np.zeros(len(coll))),
            np.zeros((coll.dim, coll.dim)),
        )

    def test_stack_is_cached_and_gated(self):
        coll = self._dense_collection(5)
        coll.weighted_sum(np.ones(len(coll)))
        assert coll._dense_stack is not None
        mixed = ConstraintCollection(
            [coll.operators[0], np.ones(10)], validate=False
        )  # diagonal operator present -> no dense stack
        mixed.weighted_sum(np.ones(2))
        assert mixed._dense_stack is None


def _concentrated_sparse_collection(seed=31, m=60, n=40, support=10, col_nnz=8):
    """Sparse factorized constraints whose supports share `support` rows, the
    regime where the exact Psi pattern beats every other representation."""
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n):
        dense = np.zeros((m, 2))
        for c in range(2):
            rows = rng.choice(support, size=col_nnz, replace=False)
            dense[rows, c] = 0.3 * rng.standard_normal(col_nnz)
        if not np.any(dense):
            dense[0, 0] = 0.3
        ops.append(FactorizedPSDOperator(sp.csr_matrix(dense)))
    return ConstraintCollection(ops)


class TestTaylorEngineRegressions:
    """The rank-adaptive engine must update incrementally — one full build,
    then work proportional to the active columns — and certify the same
    decisions as the PR-2 per-call kernel on fixed seeds."""

    def test_gram_engine_charges_proportional_work(self):
        coll = _factorized_collection(seed=41, m=40, n=10)  # R = 20 <= m/2
        result = decision_psdp(
            coll,
            epsilon=0.25,
            oracle="fast",
            rng=3,
            max_iterations=25,
            collect_history=True,
        )
        stats = result.metadata["taylor_engine"]
        assert stats["mode"] == "gram"
        assert stats["full_builds"] == 1
        assert stats["incremental_updates"] == result.iterations - 1
        # Every oracle call after the first sees exactly the coordinates the
        # previous iteration multiplied (rank 2 each): the engine's touched
        # columns must equal the solver's per-iteration update counts — a
        # full rebuild would touch all R columns every time.
        history_updates = [rec.updated for rec in result.history]
        assert stats["columns_updated"] == 2 * sum(history_updates[:-1])
        # The tracker's label records the same charges: full Gram build plus
        # the exact per-column update rate (R per touched column).
        charged = result.work_depth.by_label["taylor-engine-update"]
        assert charged == pytest.approx(stats["charged_work"])
        total_rank = stats["total_rank"]
        full_build = 40 * total_rank**2 + total_rank**2
        assert charged == pytest.approx(
            full_build + total_rank * stats["columns_updated"]
        )

    def test_sparse_psi_engine_charges_proportional_work(self):
        coll = _concentrated_sparse_collection()
        result = decision_psdp(
            coll,
            epsilon=0.25,
            oracle="fast",
            rng=5,
            max_iterations=20,
            collect_history=True,
        )
        stats = result.metadata["taylor_engine"]
        assert stats["mode"] == "sparse-psi"
        assert stats["full_builds"] == 1
        assert stats["incremental_updates"] == result.iterations - 1
        history_updates = [rec.updated for rec in result.history]
        assert stats["columns_updated"] == 2 * sum(history_updates[:-1])
        acc = coll.packed().psi_accumulator()
        charged = result.work_depth.by_label["taylor-engine-update"]
        assert charged == pytest.approx(stats["charged_work"])
        # Every incremental update costs at most one pass over the
        # weight-to-values map; proportionality caps the total at the
        # per-column map density times the touched columns.
        incremental = charged - acc.map_nnz  # full build = one map pass
        per_column_cap = acc.map_nnz / stats["total_rank"]
        assert incremental <= per_column_cap * stats["columns_updated"] * 1.0001

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_engine_and_legacy_kernel_certify_identical_decisions(self, seed):
        outcomes = {}
        for engine in (True, False):
            coll = _factorized_collection(seed=seed, m=16, n=10)
            oracle = FastDotExpOracle(coll, eps=0.08, rng=seed + 100, engine=engine)
            result = decision_psdp(
                coll, epsilon=0.3, oracle=oracle, rng=seed + 100, max_iterations=40
            )
            outcomes[engine] = result
        assert outcomes[True].outcome == outcomes[False].outcome
        assert outcomes[True].iterations == outcomes[False].iterations
        np.testing.assert_allclose(
            outcomes[True].dual_x, outcomes[False].dual_x, rtol=1e-6
        )

    def test_phased_solver_surfaces_engine_stats(self):
        coll = _factorized_collection(seed=43, m=40, n=10)
        result = decision_psdp_phased(
            coll, epsilon=0.3, oracle="fast", rng=7, max_iterations=15
        )
        stats = result.metadata["taylor_engine"]
        assert stats["full_builds"] == 1
        assert stats["mode"] == "gram"
        assert result.work_depth.by_label["taylor-engine-update"] == pytest.approx(
            stats["charged_work"]
        )

    def test_exact_oracle_has_no_engine_metadata(self, small_collection):
        result = decision_psdp(small_collection, epsilon=0.3, max_iterations=4)
        assert "taylor_engine" not in result.metadata


def _counting_expm(monkeypatch, modules):
    """Replace expm_normalized in the given solver modules with a counter."""
    from repro.linalg.expm import expm_normalized as real

    counter = {"calls": 0}

    def counting(psi):
        counter["calls"] += 1
        return real(psi)

    for module in modules:
        monkeypatch.setattr(module, "expm_normalized", counting)
    return counter


class TestMatrixFreeRegressions:
    """The E14 matrix-free core: fixed-seed equivalence against the dense
    state, the zero-materialisation discipline, and the lazy primal build."""

    def test_dense_and_implicit_states_certify_identical_decisions(self):
        # m = 96 keeps both states on the Lanczos (not eigvalsh) regime.
        results = {}
        for mode in ("dense", "implicit"):
            coll = _factorized_collection(seed=20120522, m=96, n=12)
            oracle = FastDotExpOracle(coll, eps=0.05, rng=17)
            results[mode] = decision_psdp(
                coll,
                epsilon=0.2,
                oracle=oracle,
                rng=17,
                psi_state=mode,
                collect_history=True,
                max_iterations=20,
                certificate_check_every=5,
            )
        dense, implicit = results["dense"], results["implicit"]
        assert dense.metadata["psi_state"]["mode"] == "dense"
        assert implicit.metadata["psi_state"]["mode"] == "implicit"
        assert dense.outcome == implicit.outcome
        assert dense.iterations == implicit.iterations
        np.testing.assert_allclose(dense.dual_x, implicit.dual_x, rtol=1e-8, atol=1e-12)
        # Per-iteration lambda_max: dense Lanczos on the materialised Psi vs
        # warm-started Lanczos through the factored matvec.
        lam_dense = np.array([r.psi_lambda_max for r in dense.history])
        lam_implicit = np.array([r.psi_lambda_max for r in implicit.history])
        np.testing.assert_allclose(lam_implicit, lam_dense, rtol=1e-8, atol=1e-8)

    def test_auto_mode_selects_implicit_for_fast_oracle(self):
        coll = _factorized_collection(seed=3, m=20, n=8)
        result = decision_psdp(coll, epsilon=0.25, oracle="fast", rng=5, max_iterations=6)
        assert result.metadata["psi_state"]["mode"] == "implicit"
        exact = decision_psdp(
            _factorized_collection(seed=3, m=20, n=8), epsilon=0.25, max_iterations=6
        )
        assert exact.metadata["psi_state"]["mode"] == "dense"

    def test_fast_path_performs_zero_materialisations_and_expm(self, monkeypatch):
        """A fast-path solve with history + certificate checks enabled must
        run zero expm_normalized calls and zero dense Psi materialisations
        — until (and unless) primal_y is read, which triggers exactly one
        of each."""
        import repro.core.decision as decision_mod

        counter = _counting_expm(monkeypatch, [decision_mod])
        coll = _factorized_collection(seed=8, m=96, n=10)
        result = decision_psdp(
            coll,
            epsilon=0.2,
            oracle="fast",
            rng=11,
            collect_history=True,
            certificate_check_every=3,
            max_iterations=12,
        )
        stats = result.metadata["psi_state"]
        assert stats["mode"] == "implicit"
        assert stats["densifies"] == 0
        assert counter["calls"] == 0
        assert result.counters.eigendecompositions == 0
        assert result.history is not None and len(result.history) == result.iterations
        assert all(np.isfinite(r.psi_lambda_max) for r in result.history)
        if result.outcome.name == "PRIMAL":
            # Reading primal_y runs the one deferred densify + expm.
            y = result.primal_y
            assert counter["calls"] == 1
            assert np.trace(y) == pytest.approx(1.0, abs=1e-8)
            # The builder replaces the sketched estimate with exact dots.
            exact_min = float(coll.dots(y).min())
            assert result.primal_min_dot == pytest.approx(exact_min)
            # Cached: a second read builds nothing.
            assert result.primal_y is y
            assert counter["calls"] == 1
        else:
            assert result.primal_y is None
            assert counter["calls"] == 0

    def test_fast_path_dual_outcome_never_builds_primal(self, monkeypatch):
        import repro.core.decision as decision_mod

        counter = _counting_expm(monkeypatch, [decision_mod])
        rng = np.random.default_rng(2)
        coll = ConstraintCollection(
            [FactorizedPSDOperator(0.05 * rng.standard_normal((16, 2))) for _ in range(6)]
        )
        result = decision_psdp(coll, epsilon=0.25, oracle="fast", rng=4)
        assert result.outcome.name == "DUAL"
        assert result.primal_y is None
        assert counter["calls"] == 0
        assert result.metadata["psi_state"]["densifies"] == 0

    def test_phased_fast_path_is_matrix_free(self, monkeypatch):
        # The phased loop runs on the shared DecisionRun, which builds every
        # density (and the deferred primal) in repro.core.decision.
        import repro.core.decision as decision_mod

        counter = _counting_expm(monkeypatch, [decision_mod])
        coll = _factorized_collection(seed=9, m=96, n=10)
        result = decision_psdp_phased(
            coll, epsilon=0.25, oracle="fast", rng=6, max_iterations=12
        )
        assert result.metadata["psi_state"]["mode"] == "implicit"
        assert result.metadata["psi_state"]["densifies"] == 0
        assert counter["calls"] == 0
        # The phased solver always carries a primal candidate: reading it
        # triggers the one deferred build.
        y = result.primal_y
        assert y is not None
        assert counter["calls"] == 1
        assert np.trace(y) == pytest.approx(1.0, abs=1e-8)

    def test_phased_dense_and_implicit_agree(self):
        results = {}
        for mode in ("dense", "implicit"):
            coll = _factorized_collection(seed=12, m=40, n=10)
            oracle = FastDotExpOracle(coll, eps=0.05, rng=21)
            results[mode] = decision_psdp_phased(
                coll, epsilon=0.25, oracle="fast", rng=21, psi_state=mode,
                max_iterations=15,
            )
        assert results["dense"].outcome == results["implicit"].outcome
        assert results["dense"].iterations == results["implicit"].iterations
        np.testing.assert_allclose(
            results["dense"].dual_x, results["implicit"].dual_x, rtol=1e-8
        )

    def test_measured_eig_charges_replace_constant(self):
        """Certificate-check/dual-rescale work is charged from measured
        Lanczos sweeps — orders of magnitude below the old m^2 * maxiter
        pessimistic constant."""
        from repro.config import get_config

        coll = _factorized_collection(seed=13, m=96, n=10)
        result = decision_psdp(
            coll, epsilon=0.2, oracle="fast", rng=9,
            certificate_check_every=3, max_iterations=12,
        )
        m = 96
        old_constant = m * m * min(m, get_config().power_iteration_maxiter)
        rescale = result.work_depth.by_label["dual-rescale"]
        assert 0 < rescale < old_constant

    def test_fast_oracle_accepts_psi_none(self):
        coll = _factorized_collection(seed=14)
        oracle = FastDotExpOracle(coll, eps=0.1, rng=2)
        x = np.full(len(coll), 1.0 / len(coll))
        out_none = oracle(None, x)
        assert np.all(np.isfinite(out_none.values))
        out_kw = FastDotExpOracle(_factorized_collection(seed=14), eps=0.1, rng=2)(x=x)
        np.testing.assert_array_equal(out_none.values, out_kw.values)
        with pytest.raises(Exception):
            oracle(None)  # x is required

    def test_exact_oracle_rejects_psi_none(self):
        from repro.exceptions import InvalidProblemError

        coll = _factorized_collection(seed=15)
        oracle = ExactDotExpOracle(coll)
        with pytest.raises(InvalidProblemError):
            oracle(None, np.full(len(coll), 0.1))

    def test_forced_implicit_state_on_exact_oracle_collection(self):
        # psi_state="implicit" is honoured whenever the factors are exact,
        # even if auto would have chosen dense (the oracle needs psi, so
        # the exact oracle cannot run on it — use the fast oracle).
        coll = _factorized_collection(seed=16, m=30, n=8)
        oracle = FastDotExpOracle(coll, eps=0.08, rng=3, packed=True)
        result = decision_psdp(
            coll, epsilon=0.25, oracle=oracle, rng=3, psi_state="implicit",
            max_iterations=8,
        )
        assert result.metadata["psi_state"]["mode"] == "implicit"


def _trace_collection(seed, m, n, kind="lowrank", rank=2, density=0.05):
    """Factorized families for the E15 structured-trace regressions."""
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(m)
    ops = []
    for _ in range(n):
        if kind == "lowrank":
            ops.append(FactorizedPSDOperator(scale * rng.standard_normal((m, rank))))
        else:
            factor = sp.random(m, rank, density=density, random_state=rng, format="csr")
            if factor.nnz == 0:
                factor = sp.csr_matrix(
                    (np.full(rank, scale), (rng.integers(0, m, rank), np.arange(rank))),
                    shape=(m, rank),
                )
            ops.append(FactorizedPSDOperator(factor * (scale / np.sqrt(density))))
    return ConstraintCollection(ops, validate=False)


class TestStructuredTraceRegressions:
    """The E15 structured trace estimator: fixed-seed decision equivalence
    against the identity-push reference and the zero-full-identity-apply
    discipline on the ``m >= 512`` degenerate-sketch grid."""

    def _solve(self, seed, m, n, kind, trace_mode, cap=8):
        coll = _trace_collection(seed, m, n, kind=kind)
        oracle = FastDotExpOracle(coll, eps=0.1, rng=seed, trace_mode=trace_mode)
        result = decision_psdp(
            coll,
            epsilon=0.2,
            oracle=oracle,
            rng=seed,
            max_iterations=cap,
            collect_history=True,
            certificate_check_every=4,
        )
        return result, oracle

    @pytest.mark.parametrize(
        "m,n,kind",
        [
            (512, 8, "lowrank"),   # gram trace mode (2R << m)
            (512, 120, "sparse"),  # gram trace mode on a sparse stack
        ],
    )
    def test_m512_degenerate_solves_zero_identity_applies(self, m, n, kind):
        result, oracle = self._solve(11, m, n, kind, "auto")
        assert oracle.counters.extra.get("identity_taylor_applies", 0) == 0
        stats = result.metadata["trace_estimator"]
        assert stats["identity_fallbacks"] == 0
        assert stats["calls"] == result.iterations
        assert stats["mode"] in ("gram", "deflated")

    @pytest.mark.parametrize(
        "m,n,kind",
        [
            (512, 8, "lowrank"),
            (256, 80, "lowrank"),  # 2R > 1.1m: deflated trace mode
            (512, 120, "sparse"),
        ],
    )
    def test_structured_and_identity_certify_identical_decisions(self, m, n, kind):
        new, oracle_new = self._solve(13, m, n, kind, "auto")
        ref, oracle_ref = self._solve(13, m, n, kind, "identity")
        assert oracle_ref.trace_estimator is None
        assert new.outcome == ref.outcome
        assert new.iterations == ref.iterations
        np.testing.assert_allclose(new.dual_x, ref.dual_x, rtol=1e-6, atol=1e-10)
        # The reference run pushed one identity per oracle call; the
        # structured run pushed none.
        assert oracle_ref.counters.extra["identity_taylor_applies"] == ref.iterations
        assert oracle_new.counters.extra.get("identity_taylor_applies", 0) == 0

    def test_deflated_mode_selected_past_gram_gate(self):
        result, oracle = self._solve(17, 256, 80, "lowrank", "auto", cap=5)
        assert result.metadata["trace_estimator"]["mode"] == "deflated"
        assert oracle.counters.extra.get("identity_taylor_applies", 0) == 0

    def test_oracle_work_charge_shrinks_with_structured_trace(self):
        new, _ = self._solve(19, 512, 8, "lowrank", "auto", cap=4)
        ref, _ = self._solve(19, 512, 8, "lowrank", "identity", cap=4)
        work_new = sum(r.oracle_work for r in new.history)
        work_ref = sum(r.oracle_work for r in ref.history)
        assert work_new < 0.5 * work_ref

    def test_phased_solver_surfaces_trace_stats(self):
        coll = _trace_collection(23, 256, 8)
        oracle = FastDotExpOracle(coll, eps=0.1, rng=23)
        result = decision_psdp_phased(
            coll, epsilon=0.25, oracle=oracle, rng=23, max_iterations=8
        )
        stats = result.metadata["trace_estimator"]
        assert stats["mode"] == "gram"
        assert stats["identity_fallbacks"] == 0
        assert oracle.counters.extra.get("identity_taylor_applies", 0) == 0

    def test_exact_oracle_has_no_trace_metadata(self, small_collection):
        result = decision_psdp(small_collection, epsilon=0.3, max_iterations=4)
        assert "trace_estimator" not in result.metadata
