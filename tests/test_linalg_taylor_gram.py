"""Tests for repro.linalg.taylor_gram (the rank-adaptive exponential engine).

Every representation the engine can select — Gram-twin spectrum, densified
``Psi``, scaled factor recurrence — must evaluate exactly the same Lemma 4.2
polynomial as the per-term reference
:func:`repro.linalg.taylor.taylor_expm_apply`; every engine kernel must be
a function of the call's weights alone (bitwise equal to a fresh engine's),
each non-Gram call must charge its full build, and the Gram mode nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import InvalidProblemError, NumericalError
from repro.linalg.taylor import taylor_degree, taylor_expm_apply
from repro.linalg.taylor_blocked import BlockedTaylorKernel, densified_psi
from repro.linalg.taylor_gram import (
    GRAM_HYSTERESIS,
    SPARSE_GEMM_DISCOUNT,
    GramTaylorKernel,
    TaylorEngine,
    gram_eigenpairs,
    gram_top_eigenvalue,
    gram_twin,
    product_evaluation,
    select_taylor_mode,
    spectral_evaluation_row,
)
from repro.operators import ConstraintCollection, FactorizedPSDOperator, PackedGramFactors
from repro.core.dotexp import FastDotExpOracle, big_dot_exp
from repro.parallel.backends import SerialBackend
from repro.parallel.workdepth import WorkDepthTracker


def _stack(m, r, seed, sparse=False, density=0.2):
    rng = np.random.default_rng(seed)
    if sparse:
        mat = sp.random(m, r, density=density, random_state=rng, format="csr")
        return mat if mat.nnz else sp.csr_matrix(np.eye(m)[:, :r])
    return rng.standard_normal((m, r)) / np.sqrt(m)


def _psi_of(q, w):
    if sp.issparse(q):
        return np.asarray((q.multiply(w[None, :]) @ q.T).todense())
    return (q * w) @ q.T


class TestGramKernelEquivalence:
    def test_matches_reference_per_column(self):
        m, r, s, degree = 26, 8, 9, 18
        q = _stack(m, r, seed=1)
        w = np.random.default_rng(2).random(r)
        block = np.random.default_rng(3).standard_normal((m, s))
        out = GramTaylorKernel(q, w).apply(block, degree)
        psi = _psi_of(q, w)
        for j in range(s):
            ref = taylor_expm_apply(psi, block[:, j], degree)
            np.testing.assert_allclose(out[:, j], ref, atol=1e-10, rtol=0)

    def test_scale_half_matches_reference(self):
        m, r, degree = 16, 5, 14
        q = _stack(m, r, seed=4)
        w = np.random.default_rng(5).random(r)
        vec = np.random.default_rng(6).standard_normal(m)
        out = GramTaylorKernel(q, w).apply(vec, degree, scale=0.5)
        ref = taylor_expm_apply(0.5 * _psi_of(q, w), vec, degree)
        np.testing.assert_allclose(out, ref, atol=1e-12)
        assert out.shape == (m,)

    def test_sparse_stack_matches_reference(self):
        m, r, degree = 30, 9, 16
        q = _stack(m, r, seed=7, sparse=True)
        w = np.random.default_rng(8).random(r)
        block = np.random.default_rng(9).standard_normal((m, 4))
        out = GramTaylorKernel(q, w).apply(block, degree)
        np.testing.assert_allclose(
            out, taylor_expm_apply(_psi_of(q, w), block, degree), atol=1e-10
        )

    def test_matches_blocked_kernel(self):
        m, r, degree = 22, 6, 15
        q = _stack(m, r, seed=10)
        w = np.random.default_rng(11).random(r)
        block = np.random.default_rng(12).standard_normal((m, 5))
        np.testing.assert_allclose(
            GramTaylorKernel(q, w).apply(block, degree, scale=0.5),
            BlockedTaylorKernel.from_matrix(densified_psi(q, w)).apply(
                block, degree, scale=0.5
            ),
            atol=1e-11,
        )

    def test_precomputed_gram_matches_internal(self):
        m, r = 18, 5
        q = _stack(m, r, seed=13)
        w = np.random.default_rng(14).random(r)
        gram = q.T @ q
        block = np.random.default_rng(15).standard_normal((m, 3))
        np.testing.assert_array_equal(
            GramTaylorKernel(q, w, gram=gram).apply(block, 12),
            GramTaylorKernel(q, w).apply(block, 12),
        )

    def test_degree_one_is_identity(self):
        q = _stack(10, 3, seed=16)
        block = np.random.default_rng(17).standard_normal((10, 4))
        np.testing.assert_array_equal(
            GramTaylorKernel(q, np.ones(3)).apply(block, 1), block
        )

    def test_degree_two_is_affine(self):
        q = _stack(10, 3, seed=18)
        w = np.random.default_rng(19).random(3)
        block = np.random.default_rng(20).standard_normal((10, 2))
        out = GramTaylorKernel(q, w).apply(block, 2, scale=0.5)
        np.testing.assert_allclose(out, block + 0.5 * _psi_of(q, w) @ block, atol=1e-12)

    def test_zero_rank_stack_is_identity_polynomial(self):
        block = np.random.default_rng(21).standard_normal((7, 3))
        kernel = GramTaylorKernel(np.zeros((7, 0)), np.zeros(0))
        np.testing.assert_array_equal(kernel.apply(block, 9), block)

    def test_matvec_and_count(self):
        m, r = 14, 4
        q = _stack(m, r, seed=25)
        w = np.random.default_rng(26).random(r)
        kernel = GramTaylorKernel(q, w)
        vec = np.random.default_rng(27).standard_normal(m)
        np.testing.assert_allclose(kernel.matvec(vec), _psi_of(q, w) @ vec, atol=1e-12)
        kernel.apply(np.ones((m, 5)), 7)
        assert kernel.matvec_count == 5 * 6
        kernel.apply(np.ones(m), 4)
        assert kernel.matvec_count == 5 * 6 + 3

    @pytest.mark.parametrize(
        "case", ["zero-weights", "rank-deficient", "lambda-max-16", "sparse", "float32"]
    )
    def test_spectral_edge_cases_match_dense_psi(self, case):
        # Apply and factor-column values against the dense-psi recurrence,
        # per column; the float32 case runs both kernels in float32.
        m, r = 24, 8
        rng = np.random.default_rng(31)
        q = _stack(m, r, seed=32, sparse=case == "sparse", density=0.3)
        w = rng.random(r) + 0.1
        degree, tol = 14, 1e-10
        if case == "zero-weights":
            w = np.zeros(r)
        elif case == "rank-deficient":
            q[:, 1] = q[:, 0]
        elif case == "lambda-max-16":
            w *= 16.0 / np.linalg.eigvalsh(_psi_of(q, w))[-1]
            degree = taylor_degree(8.0, 0.01)
            assert degree >= 60
        elif case == "float32":
            q, w, tol = q.astype(np.float32), w.astype(np.float32), 1e-4
        dtype = np.float32 if case == "float32" else np.float64
        gram = GramTaylorKernel(q, w)
        dense = BlockedTaylorKernel.from_matrix(densified_psi(q, w))
        block = rng.standard_normal((m, 5)).astype(dtype)
        q_cols = q.toarray() if sp.issparse(q) else q
        transformed = dense.apply(q_cols, degree, scale=0.5)
        pairs = [
            (gram.apply(block, degree, scale=0.5), dense.apply(block, degree, scale=0.5)),
            (
                gram.factor_column_values(degree, scale=0.5)[None, :],
                np.einsum("ij,ij->j", transformed, transformed)[None, :],
            ),
        ]
        for got, want in pairs:
            assert got.dtype == dtype
            assert np.all(np.isfinite(got))
            scale = np.maximum(np.abs(want).max(axis=0), 1.0)
            assert np.all(np.abs(got - want).max(axis=0) <= tol * scale)
        if case == "zero-weights":
            np.testing.assert_array_equal(gram.apply(block, degree, scale=0.5), block)
        if case == "rank-deficient":
            assert gram.spectrum[0] <= 1e-12 * gram.spectrum[-1]

    def test_validation(self):
        q = _stack(8, 2, seed=30)
        with pytest.raises(InvalidProblemError):
            GramTaylorKernel(q, np.ones(3))
        with pytest.raises(InvalidProblemError):
            GramTaylorKernel(q, np.array([1.0, -1.0]))
        with pytest.raises(InvalidProblemError):
            GramTaylorKernel(q, np.ones(2), gram=np.ones((3, 3)))
        kernel = GramTaylorKernel(q, np.ones(2))
        with pytest.raises(ValueError):
            kernel.apply(np.ones(8), 0)
        with pytest.raises(InvalidProblemError):
            kernel.apply(np.ones((7, 2)), 3)

    def test_overflow_detection(self):
        q = np.diag([30.0, 0.0])
        with pytest.raises(NumericalError):
            GramTaylorKernel(q, np.ones(2)).apply(np.full(2, 1e300), 60)


class TestGramTopEigenvalue:
    @pytest.mark.parametrize("r", [1, 8, 96])
    def test_matches_the_top_of_eigvalsh(self, r):
        rng = np.random.default_rng(r)
        q = rng.standard_normal((2 * r, r))
        twin = gram_twin(q.T @ q, rng.random(r) + 0.1)
        top = gram_top_eigenvalue(twin)
        assert top.shape == (1,)
        assert abs(top[0] - np.linalg.eigvalsh(twin)[-1]) <= 1e-13 * top[0]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_upper_triangle_raises(self, value):
        twin = np.diag([3.0, 2.0, 1.0])
        twin[0, 2] = value
        with pytest.raises(NumericalError) as excinfo:
            gram_top_eigenvalue(twin)
        assert excinfo.value.site == GramTaylorKernel.fault_site


class TestProductEvaluation:
    """The spectrum-free route agrees with the spectral one and is row-exact in batches."""

    @pytest.mark.parametrize(
        "degree, top, r",
        [(d, t, r) for d in (8, 9, 12) for t in (0.01, 0.5, 1.9) for r in (1, 8, 32, 96)]
        # Above the floor, at the degree Lemma 4.2 gives each lambda_max at
        # eps / 2 = 0.0625, as an oracle call whose Cholesky proves nothing.
        + [(d, t, r) for d, t in ((12, 3.0), (19, 5.0), (74, 20.0)) for r in (8, 32, 96, 400)],
    )
    def test_matches_spectral_evaluation(self, r, top, degree):
        rng = np.random.default_rng(r)
        q = rng.standard_normal((2 * r + 4, r)) * (rng.random((2 * r + 4, r)) < 0.5)
        gram = q.T @ q
        w = rng.random(r) + 0.1
        w *= top / np.linalg.eigvalsh(gram_twin(gram, w))[-1]
        twin = gram_twin(gram, w)
        values, trace = product_evaluation(gram, w, twin, degree, 2 * r + 4)
        expected, expected_trace = spectral_evaluation_row(
            gram, w, *gram_eigenpairs(twin), degree, 2 * r + 4
        )
        np.testing.assert_allclose(values, expected, rtol=1e-13, atol=0.0)
        assert abs(trace - expected_trace) <= 1e-14 * expected_trace

    @pytest.mark.parametrize("r", [1, 2, 8, 32])
    def test_batch_rows_equal_single_calls(self, r):
        rng = np.random.default_rng(10 + r)
        q = rng.standard_normal((2 * r, r))
        gram = np.stack([q.T @ q] * 4)
        w = (rng.random((4, r)) + 0.1) / (2 * r)
        twins = gram_twin(gram, w)
        values, traces = product_evaluation(gram, w, twins, 8, 2 * r)
        for b in range(4):
            row, trace = product_evaluation(gram[b], w[b], gram_twin(gram[b], w[b]), 8, 2 * r)
            assert np.array_equal(values[b], row)
            assert traces[b] == trace

    def test_low_degrees(self):
        # Degree 1 is the identity polynomial, degree 2 the affine one.
        rng = np.random.default_rng(3)
        q = rng.standard_normal((6, 3))
        gram, w = q.T @ q, np.full(3, 0.1)
        twin = gram_twin(gram, w)
        for degree in (1, 2, 3, 4):
            values, trace = product_evaluation(gram, w, twin, degree, 6)
            expected, expected_trace = spectral_evaluation_row(
                gram, w, *gram_eigenpairs(twin), degree, 6
            )
            np.testing.assert_allclose(values, expected, rtol=1e-13)
            assert abs(trace - expected_trace) <= 1e-14 * expected_trace


class TestSelectTaylorMode:
    def test_gram_at_and_below_half_rank(self):
        # The 2R == m boundary belongs to the Gram-space path.
        assert select_taylor_mode(100, 50, 5000, False) == "gram"
        assert select_taylor_mode(100, 49, 4900, False) == "gram"
        assert select_taylor_mode(100, 0, 0, False) == "gram"

    def test_gram_hysteresis_keeps_near_threshold_stacks(self):
        # 2R just past m stays on the Gram path (R^2 ~ m^2/4 still beats
        # the densified m^2 recurrence); the ~10% hysteresis margin is the
        # near-threshold fix of the E14 PR.
        assert select_taylor_mode(100, 51, 5100, False) == "gram"
        assert select_taylor_mode(100, 55, 5500, False) == "gram"  # 2R = 1.1 m
        assert select_taylor_mode(100, 56, 5600, False) == "dense-psi"

    def test_dense_stack_above_hysteresis_densifies(self):
        assert select_taylor_mode(100, 60, 6000, False) == "dense-psi"
        assert select_taylor_mode(100, 400, 40000, False) == "dense-psi"

    def test_e13_near_threshold_row_no_flip_flop(self):
        # The near-threshold adversary (n=33, m=128, rank 2 -> 2R = m + 4) used to
        # break even on the densified kernel; with the hysteresis it
        # selects gram, and every selection surface — the pure function,
        # the packed view's cached auto mode, the engine and its kernels —
        # must agree and stay stable across repeated calls.
        m, n, rank = 128, 33, 2
        assert 2 * n * rank == m + 4  # just past the sharp boundary
        assert 2 * n * rank <= GRAM_HYSTERESIS * m
        assert select_taylor_mode(m, n * rank, m * n * rank, False) == "gram"
        packed = _packed(n, m, rank=rank, seed=59)
        first = packed.auto_taylor_mode()
        assert first == "gram"
        for _ in range(3):
            assert packed.auto_taylor_mode() == first
        x = np.random.default_rng(60).random(n)
        engine = TaylorEngine(packed)
        assert engine.mode == "gram"
        assert engine.kernel_for(x).mode == "gram"

    def test_sparse_dense_boundary(self):
        # At the densification threshold the discounted factor cost equals
        # m^2 exactly; ties break toward the denser representation.
        m, r = 128, 130
        nnz_at_threshold = int(m * m / (2 * SPARSE_GEMM_DISCOUNT))
        assert select_taylor_mode(m, r, nnz_at_threshold, True) == "dense-psi"
        assert select_taylor_mode(m, r, nnz_at_threshold - 1, True) == "sparse-factors"
        assert select_taylor_mode(m, r, nnz_at_threshold + 1, True) == "dense-psi"

    def test_negative_inputs_rejected(self):
        with pytest.raises(InvalidProblemError):
            select_taylor_mode(-1, 0, 0, False)


def _packed(n, m, rank=2, seed=50, sparse=False, density=0.1, scale=0.3):
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(n):
        if sparse:
            f = sp.random(m, rank, density=density, random_state=rng, format="csr")
            if f.nnz == 0:
                f = sp.csr_matrix(
                    (np.full(rank, scale), (rng.integers(0, m, rank), np.arange(rank))),
                    shape=(m, rank),
                )
            factors.append(f)
        else:
            factors.append(scale * rng.standard_normal((m, rank)))
    return PackedGramFactors(factors)


class TestTaylorEngine:
    @pytest.mark.parametrize(
        "mode,sparse",
        [
            ("gram", False),
            ("gram", True),
            ("dense-psi", False),
            ("dense-psi", True),
            ("sparse-factors", True),
        ],
    )
    def test_incremental_state_matches_rebuild(self, mode, sparse):
        # A kernel is a function of (stack, mode, weights): after a run of
        # incremental weight changes it applies bitwise equal to a fresh
        # engine's rebuild for the same weights, and both evaluate the
        # Lemma 4.2 polynomial.
        packed = _packed(8, 18, sparse=sparse, seed=51)
        engine = TaylorEngine(packed, mode=mode)
        rng = np.random.default_rng(52)
        block = rng.standard_normal((18, 5))
        x = rng.random(8)
        for step in range(4):
            out = engine.kernel_for(x).apply(block, 12, scale=0.5)
            fresh = TaylorEngine(packed, mode=mode).kernel_for(x)
            np.testing.assert_array_equal(out, fresh.apply(block, 12, scale=0.5))
            psi = _psi_of(packed.matrix, packed.expand_weights(x))
            np.testing.assert_allclose(
                out, taylor_expm_apply(0.5 * psi, block, 12), atol=1e-9
            )
            # Perturb a couple of coordinates, as the solver does.
            x = x.copy()
            x[rng.integers(0, 8)] *= 1.4
            x[rng.integers(0, 8)] = 0.0

    def test_charges_backend_proportionally(self):
        # Every non-Gram call charges its whole build, whatever the previous
        # call's weights were: m^2 R to densify Psi, nnz(Q) for the scaled
        # stack.  The Gram rung charges nothing.
        dense = _packed(10, 40, seed=55)
        sparse = _packed(10, 40, sparse=True, seed=55)
        x = np.random.default_rng(56).random(10)
        x2 = x.copy()
        x2[0] *= 1.5
        builds = [
            ("gram", dense, 0.0),
            ("dense-psi", dense, 40 * 40 * dense.total_rank),
            ("sparse-factors", sparse, sparse.nnz),
        ]
        for mode, packed, build in builds:
            tracker = WorkDepthTracker()
            backend = SerialBackend(tracker=tracker)
            engine = TaylorEngine(packed, mode=mode)
            for weights in (x, x2, x2):
                engine.kernel_for(weights, backend=backend)
            assert tracker.by_label.get("taylor-engine-update", 0.0) == 3 * build, mode
            assert engine.stats() == {"mode": mode, "total_rank": packed.total_rank}

    def test_export_state_is_the_mode(self):
        packed = _packed(8, 18, sparse=True, seed=58)
        for mode in ("gram", "dense-psi", "sparse-factors"):
            engine = TaylorEngine(packed, mode=mode)
            engine.kernel_for(np.random.default_rng(59).random(8))
            assert engine.export_state() == {"mode": mode}
            # Buffers and counters of older snapshots are ignored.
            engine.import_state({"mode": mode, "w_cols": np.ones(3), "full_builds": 1})
            with pytest.raises(InvalidProblemError):
                engine.import_state({"mode": "gram" if mode != "gram" else "dense-psi"})

    def test_zero_rank_engine(self):
        packed = PackedGramFactors([np.zeros((6, 0)), np.zeros((6, 0))])
        engine = TaylorEngine(packed)
        kernel = engine.kernel_for(np.zeros(2))
        block = np.random.default_rng(57).standard_normal((6, 3))
        np.testing.assert_array_equal(kernel.apply(block, 8), block)

    def test_mode_validation(self):
        dense = _packed(4, 12)
        with pytest.raises(InvalidProblemError):
            TaylorEngine(dense, mode="sparse-factors")  # needs a sparse stack
        with pytest.raises(InvalidProblemError):
            # No longer a mode, not even on a sparse stack.
            TaylorEngine(_packed(4, 12, sparse=True), mode="sparse-psi")
        with pytest.raises(InvalidProblemError):
            TaylorEngine(dense, mode="bogus")
        with pytest.raises(InvalidProblemError):
            TaylorEngine(dense, mode="dense-factors")  # no longer a mode


class TestOracleIntegration:
    def _collection(self, n=10, m=40, seed=60):
        rng = np.random.default_rng(seed)
        return ConstraintCollection(
            [FactorizedPSDOperator(0.3 * rng.standard_normal((m, 2))) for _ in range(n)]
        )

    def test_big_dot_exp_accepts_gram_kernel(self):
        coll = self._collection()
        packed = coll.packed()
        x = np.random.default_rng(61).random(len(coll)) / len(coll)
        kernel = TaylorEngine(packed).kernel_for(x)
        assert isinstance(kernel, GramTaylorKernel)
        fused = big_dot_exp(kernel, packed, kappa=2.0, eps=0.2, use_sketch=False)
        loop = big_dot_exp(
            packed.matvec_fn(x), packed, kappa=2.0, eps=0.2, use_sketch=False,
            dim=coll.dim,
        )
        np.testing.assert_allclose(fused, loop, rtol=1e-10, atol=1e-12)

    def test_oracle_reuses_engine_across_calls(self):
        for n, m, mode in ((16, 24, "dense-psi"), (10, 40, "gram")):
            coll = self._collection(n=n, m=m)
            tracker = WorkDepthTracker()
            oracle = FastDotExpOracle(
                coll, eps=0.1, rng=20, backend=SerialBackend(tracker=tracker)
            )
            x = np.random.default_rng(63).random(len(coll)) / len(coll)
            assert oracle.taylor_engine is None
            oracle(np.zeros((coll.dim, coll.dim)), x)
            engine = oracle.taylor_engine
            assert engine is not None and engine.mode == mode
            x2 = x.copy()
            x2[4] *= 1.2
            oracle(np.zeros((coll.dim, coll.dim)), x2)
            assert oracle.taylor_engine is engine
            # dense-psi densifies Psi on both calls; the Gram mode charges nothing.
            build = m * m * 2 * n if mode == "dense-psi" else 0.0
            assert tracker.by_label.get("taylor-engine-update", 0.0) == 2 * build

    def test_oracles_own_their_engines(self):
        coll = self._collection()
        x = np.random.default_rng(64).random(len(coll)) / len(coll)
        first = FastDotExpOracle(coll, eps=0.1, rng=21)
        first(np.zeros((coll.dim, coll.dim)), x)
        second = FastDotExpOracle(coll, eps=0.1, rng=22)
        second(np.zeros((coll.dim, coll.dim)), x)
        assert second.packed is first.packed
        assert second.taylor_engine is not first.taylor_engine
        assert first.taylor_engine.mode == second.taylor_engine.mode == "gram"


class TestSelectionCostModel:
    def test_sparse_low_rank_stack_keeps_factor_recurrence(self):
        # 1500 rank-1 constraints with ~4 nnz each in m=4000: 2R <= m, but
        # a dense 1500x1500 Gram matrix (R^2 per term) would be a large
        # regression over the 2*nnz-per-term sparse factor recurrence.
        assert select_taylor_mode(4000, 1500, 6000, True) == "sparse-factors"

    def test_sparse_gram_still_wins_when_cheapest(self):
        # Dense-ish sparse stack with small R: R^2 undercuts everything.
        assert select_taylor_mode(100, 20, 1000, True) == "gram"

    def test_mode_costs_are_single_source(self):
        from repro.linalg.taylor_gram import taylor_mode_cost

        assert taylor_mode_cost("gram", 100, 20, 0) == 400
        assert taylor_mode_cost("dense-psi", 100, 20, 0) == 10000
        assert taylor_mode_cost("sparse-factors", 100, 20, 500) == pytest.approx(
            2 * 500 * SPARSE_GEMM_DISCOUNT
        )
        with pytest.raises(InvalidProblemError):
            taylor_mode_cost("bogus", 1, 1, 1)


class TestWarmStartedNormEstimate:
    def test_pure_warm_start_documents_stale_direction_risk(self):
        # The raw primitive with a stale exact eigenvector locks onto it: a
        # power-iteration Rayleigh quotient is only a lower estimate, which
        # is why the oracle takes kappa from an exact spectrum instead.
        from repro.linalg.norms import spectral_norm_power

        psi = np.diag([10.0, 20.0, 1.0, 1.0])
        stale = np.array([1.0, 0.0, 0.0, 0.0])
        assert spectral_norm_power(psi, v0=stale) == pytest.approx(10.0)
        assert spectral_norm_power(psi, rng=0) == pytest.approx(20.0)

    def test_oracle_recovers_after_dominant_direction_rotates(self):
        # Two orthogonal rank-1 constraints; shifting all the weight from
        # one to the other rotates Psi's dominant eigenvector by 90
        # degrees.  A kappa carried over from the first call's direction
        # would read ||Psi|| = 0 on the second call (Psi e1 = 0) and pick a
        # uselessly low Taylor degree; the per-call spectrum must keep the
        # values near the fresh-oracle reference.
        m = 6
        factors = [
            np.sqrt(8.0) * np.eye(m)[:, :1],
            np.sqrt(16.0) * np.eye(m)[:, 1:2],
        ]
        coll = ConstraintCollection([FactorizedPSDOperator(f) for f in factors])
        oracle = FastDotExpOracle(coll, eps=0.05, rng=1)
        oracle(np.zeros((m, m)), np.array([1.0, 0.0]))  # locks warm vector ~ e1
        second = oracle(np.zeros((m, m)), np.array([0.0, 1.0]))

        fresh_coll = ConstraintCollection([FactorizedPSDOperator(f) for f in factors])
        fresh = FastDotExpOracle(fresh_coll, eps=0.05, rng=2)(
            np.zeros((m, m)), np.array([0.0, 1.0])
        )
        np.testing.assert_allclose(second.values, fresh.values, rtol=0.2)
        assert second.trace == pytest.approx(fresh.trace, rel=0.2)
