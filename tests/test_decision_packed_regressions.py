"""Regression tests riding with the packed fast-path and blocked-Taylor PRs.

Covers the history-record NaN bug, caller-option mutation, the
top-eigenvalue certificate routine, the Taylor engine's per-call build
charges, the matrix-free core and the structured trace estimator.  The
fast-versus-exact decision equivalence lives in
``tests/test_oracle_differential.py``.
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


class TestExactOracleDots:
    def test_packed_dots_match_per_operator(self):
        """The exact oracle's trace products (the collection's packed GEMM
        on exact factors) match the per-operator ``op.dot(W)`` values."""
        from repro.linalg.expm import expm_normalized

        coll = _factorized_collection(5)
        x = np.ones(8) / 8
        psi = coll.weighted_sum(x)
        values = ExactDotExpOracle(coll)(psi, x).values
        density = expm_normalized(psi)
        expected = [op.dot(density) for op in coll]
        np.testing.assert_allclose(values, expected, rtol=1e-10, atol=1e-14)


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
    """Every oracle call builds its kernel from that call's weights: the
    non-Gram modes charge one full build per call, the Gram mode nothing."""

    def test_gram_engine_charges_proportional_work(self):
        # The Gram mode evaluates each call on its own eigendecomposition
        # of the twin of the cached Q^T Q: nothing to build, no charge.
        gram = decision_psdp(
            _factorized_collection(seed=41, m=40, n=10),  # R = 20 <= m/2
            epsilon=0.25, oracle="fast", rng=3, max_iterations=25,
        )
        assert gram.metadata["taylor_engine"] == {"mode": "gram", "total_rank": 20}
        assert "taylor-engine-update" not in gram.work_depth.by_label
        # R = 32 is past the Gram gate at m = 24: every call densifies Psi
        # at m^2 R, including calls that see only some weights change.
        m = 24
        result = decision_psdp(
            _factorized_collection(seed=41, m=m, n=16),
            epsilon=0.25,
            oracle="fast",
            rng=3,
            max_iterations=25,
            collect_history=True,
        )
        assert result.metadata["taylor_engine"] == {"mode": "dense-psi", "total_rank": 32}
        assert result.counters.calls == result.iterations
        assert result.work_depth.by_label["taylor-engine-update"] == (
            m * m * 32 * result.counters.calls
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
        assert result.metadata["taylor_engine"]["mode"] == "sparse-psi"
        # One pass over the weight-to-values map per oracle call.
        acc = coll.packed().psi_accumulator()
        assert result.work_depth.by_label["taylor-engine-update"] == (
            acc.map_nnz * result.counters.calls
        )

    def test_phased_solver_surfaces_engine_stats(self):
        for m, n, mode in ((24, 16, "dense-psi"), (40, 10, "gram")):
            coll = _factorized_collection(seed=43, m=m, n=n)
            result = decision_psdp_phased(
                coll, epsilon=0.3, oracle="fast", rng=7, max_iterations=15
            )
            assert result.metadata["taylor_engine"] == {"mode": mode, "total_rank": 2 * n}
            charged = result.work_depth.by_label.get("taylor-engine-update", 0.0)
            build = m * m * 2 * n if mode == "dense-psi" else 0.0
            assert charged == build * result.counters.calls

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
        oracle = FastDotExpOracle(coll, eps=0.08, rng=3)
        result = decision_psdp(
            coll, epsilon=0.25, oracle=oracle, rng=3, psi_state="implicit",
            max_iterations=8,
        )
        assert result.metadata["psi_state"]["mode"] == "implicit"


def _trace_collection(seed, m, n, kind="lowrank", rank=2, density=0.05):
    """Factorized families for the structured-trace regressions."""
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
    """The structured trace estimator's zero-full-identity-apply discipline
    on the ``m >= 512`` degenerate-sketch grid."""

    def _solve(self, seed, m, n, kind, cap=8):
        coll = _trace_collection(seed, m, n, kind=kind)
        oracle = FastDotExpOracle(coll, eps=0.1, rng=seed)
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
        result, oracle = self._solve(11, m, n, kind)
        assert oracle.counters.extra.get("identity_taylor_applies", 0) == 0
        stats = result.metadata["trace_estimator"]
        assert stats["identity_fallbacks"] == 0
        assert stats["calls"] == result.iterations
        assert stats["mode"] == "gram"

    def test_gram_trace_past_gate(self):
        # 2R > 1.1m, so the Taylor rung is dense-psi, but R <= m: the trace
        # still comes from the Gram spectrum.
        result, oracle = self._solve(17, 256, 80, "lowrank", cap=5)
        assert result.metadata["taylor_engine"]["mode"] == "dense-psi"
        assert result.metadata["trace_estimator"]["mode"] == "gram"
        assert oracle.counters.extra.get("identity_taylor_applies", 0) == 0

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
